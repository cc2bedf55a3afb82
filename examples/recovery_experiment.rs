//! The paper's proposed end-to-end check (§5.4, §8): inject each studied
//! fault into its simulated application and measure whether each recovery
//! strategy survives it.
//!
//! ```sh
//! cargo run --example recovery_experiment          # three showcase faults
//! cargo run --release --example recovery_experiment -- --full   # all 139
//! ```

use faultstudy::core::taxonomy::FaultClass;
use faultstudy::corpus::find;
use faultstudy::harness::experiment::{run_fault_experiment, StrategyKind};
use faultstudy::harness::{Campaign, ParallelSpec, RecoveryMatrix};

fn main() {
    let full = std::env::args().any(|a| a == "--full");
    if full {
        let (matrix, _) = RecoveryMatrix::run(2000, ParallelSpec::AUTO, false);
        println!("{matrix}");
        let restart = matrix.overall(StrategyKind::Restart);
        println!(
            "Generic restart survived {:.0}% of all faults — the paper predicted \
             only the 5-14% transient fraction would be recoverable.",
            restart.rate() * 100.0
        );
        return;
    }

    // One fault per class, under every strategy.
    let showcase = [
        ("mysql-ei-03", "COUNT(*) on an empty table (deterministic)"),
        ("apache-edn-01", "resource leak under high load (nontransient)"),
        ("apache-edt-02", "hung children fill the process table (transient)"),
    ];
    for (slug, describe) in showcase {
        let fault = find(slug).expect("showcase slug exists");
        println!("{slug}: {describe}");
        println!("  class: {}", fault.class());
        for strategy in StrategyKind::ALL {
            let out = run_fault_experiment(&fault, strategy, 2000);
            println!(
                "  {:<14} survived={} failures={} recoveries={}",
                strategy.name(),
                out.survived,
                out.failures,
                out.recoveries
            );
        }
        println!();
    }
    println!("Run with --full for the complete 139-fault matrix.");
    let _ = FaultClass::ALL;
}
