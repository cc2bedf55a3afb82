//! Generates the paper-vs-measured experiment report (`EXPERIMENTS.md`).
//!
//! For every table and figure of the paper — and for the end-to-end
//! experiments the paper proposed as future work — this module runs the
//! reproduction and renders a markdown comparison of the paper's value
//! against the measured value. `faultstudy experiments > EXPERIMENTS.md`
//! regenerates the checked-in file.

use crate::driver::{Campaign, LoadSpec};
use crate::experiment::StrategyKind;
use crate::funnel::paper_scale_funnels;
use crate::graph::{GraphReport, GRAPH_BUDGETS};
use crate::matrix::RecoveryMatrix;
use crate::oblivious::{HealMode, ObliviousReport};
use faultstudy_core::taxonomy::{AppKind, FaultClass};
use faultstudy_core::timeline::{by_month, by_release, ei_shares, max_deviation, totals_grow};
use faultstudy_corpus::paper_study;
use faultstudy_exec::ParallelSpec;
use faultstudy_report::TandemReconciliation;
use faultstudy_traffic::ArrivalKind;
use std::fmt::Write as _;

/// Renders the full paper-vs-measured report as markdown.
///
/// Deterministic for a given `seed` (the corpus-derived experiments do not
/// depend on it at all; the funnels and the recovery matrix do).
pub fn experiments_markdown(seed: u64) -> String {
    let mut md = String::new();
    let study = paper_study();

    writeln!(md, "# EXPERIMENTS — paper vs. measured").expect("write to string");
    writeln!(md).expect("w");
    writeln!(
        md,
        "Regenerate with `cargo run -p faultstudy-harness --bin faultstudy -- experiments \
         --seed {seed}`."
    )
    .expect("w");
    writeln!(md).expect("w");

    // ---- E1-E3: tables ----
    writeln!(md, "## E1–E3: Tables 1–3 (fault classification per application)").expect("w");
    writeln!(md).expect("w");
    writeln!(md, "| Experiment | App | Class | Paper | Measured | Match |").expect("w");
    writeln!(md, "|---|---|---|---|---|---|").expect("w");
    let paper_counts = [
        (AppKind::Apache, [36u32, 7, 7]),
        (AppKind::Gnome, [39, 3, 3]),
        (AppKind::Mysql, [38, 4, 2]),
    ];
    for (app, paper) in paper_counts {
        let measured = study.table(app);
        for (class, expected) in FaultClass::ALL.into_iter().zip(paper) {
            let got = measured.get(class);
            writeln!(
                md,
                "| E{} | {} | {} | {} | {} | {} |",
                app.table_number(),
                app,
                class,
                expected,
                got,
                tick(got == expected)
            )
            .expect("w");
        }
    }
    writeln!(md).expect("w");

    // ---- E4-E6: figures ----
    writeln!(md, "## E4–E6: Figures 1–3 (distributions over releases/time)").expect("w");
    writeln!(md).expect("w");
    writeln!(md, "| Experiment | Property stated in the paper | Measured | Match |").expect("w");
    writeln!(md, "|---|---|---|---|").expect("w");

    let fig1 = by_release(&study, AppKind::Apache);
    let counts1: Vec<_> = fig1.buckets.iter().map(|b| b.counts).collect();
    let dev1 = max_deviation(&ei_shares(counts1.iter().copied(), 3));
    writeln!(
        md,
        "| E4 (Fig. 1) | Apache EI proportion 'stays about the same' across releases | \
         max deviation {:.1} pp | {} |",
        dev1 * 100.0,
        tick(dev1 < 0.08)
    )
    .expect("w");
    writeln!(
        md,
        "| E4 (Fig. 1) | total reports increase with newer releases | totals {:?} | {} |",
        counts1.iter().map(|c| c.total()).collect::<Vec<_>>(),
        tick(totals_grow(&counts1))
    )
    .expect("w");

    let fig2 = by_month(&study, AppKind::Gnome);
    let totals2: Vec<u32> = fig2.buckets.iter().map(|(_, c)| c.total()).collect();
    let min_pos = totals2.iter().enumerate().min_by_key(|(_, v)| **v).map(|(i, _)| i).unwrap_or(0);
    writeln!(
        md,
        "| E5 (Fig. 2) | GNOME reports dip mid-period then grow again | monthly totals {:?}, \
         minimum at bucket {} of {} | {} |",
        totals2,
        min_pos,
        totals2.len(),
        tick(min_pos > 0 && min_pos + 1 < totals2.len())
    )
    .expect("w");

    let fig3 = by_release(&study, AppKind::Mysql);
    let totals3: Vec<u32> = fig3.buckets.iter().map(|b| b.counts.total()).collect();
    let grows = totals3[..totals3.len() - 1].windows(2).all(|w| w[0] < w[1]);
    let fresh_drop = totals3.last() < totals3.get(totals3.len().saturating_sub(2));
    writeln!(
        md,
        "| E6 (Fig. 3) | MySQL totals grow, newest release substantially lower | totals {:?} | {} |",
        totals3,
        tick(grows && fresh_drop)
    )
    .expect("w");
    writeln!(md).expect("w");

    // ---- E7: discussion ----
    let d = study.discussion();
    writeln!(md, "## E7: §5.4 aggregates").expect("w");
    writeln!(md).expect("w");
    writeln!(md, "| Quantity | Paper | Measured | Match |").expect("w");
    writeln!(md, "|---|---|---|---|").expect("w");
    writeln!(md, "| total faults | 139 | {} | {} |", d.total, tick(d.total == 139)).expect("w");
    writeln!(
        md,
        "| env-dep-nontransient | 14 (10%) | {} ({:.0}%) | {} |",
        d.nontransient.0,
        d.nontransient.1,
        tick(d.nontransient.0 == 14)
    )
    .expect("w");
    writeln!(
        md,
        "| env-dep-transient | 12 (9%) | {} ({:.0}%) | {} |",
        d.transient.0,
        d.transient.1,
        tick(d.transient.0 == 12)
    )
    .expect("w");
    writeln!(
        md,
        "| env-independent share | 72–87% | {:.0}%–{:.0}% | {} |",
        d.independent_range.0,
        d.independent_range.1.ceil(),
        tick(d.independent_range.0 >= 72.0 && d.independent_range.1 <= 87.0)
    )
    .expect("w");
    writeln!(md).expect("w");

    // ---- E8: funnels ----
    writeln!(md, "## E8: §4 selection funnels (synthetic archives, seed {seed})").expect("w");
    writeln!(md).expect("w");
    writeln!(md, "| App | Paper funnel | Measured funnel | Unique bugs | Precision/Recall |")
        .expect("w");
    writeln!(md, "|---|---|---|---|---|").expect("w");
    let paper_funnels = [
        (AppKind::Apache, "5220 → 50"),
        (AppKind::Gnome, "~500 → 45"),
        (AppKind::Mysql, "44,000 → few hundred → 44"),
    ];
    for (run, (app, paper)) in paper_scale_funnels(seed).iter().zip(paper_funnels) {
        let measured: Vec<String> =
            run.outcome.funnel.iter().map(|s| s.survivors.to_string()).collect();
        writeln!(
            md,
            "| {app} | {paper} | {} | {} | {:.3}/{:.3} |",
            measured.join(" → "),
            run.outcome.unique_bugs(),
            run.quality.precision(),
            run.quality.recall()
        )
        .expect("w");
    }
    writeln!(md).expect("w");

    // ---- E9: recovery matrix ----
    writeln!(md, "## E9: end-to-end recovery matrix (seed {seed})").expect("w");
    writeln!(md).expect("w");
    writeln!(
        md,
        "The paper predicts: environment-independent faults survive nothing; \
         nontransient faults survive no purely generic strategy; transient faults \
         survive retry-based generic recovery; overall generic survival is bounded \
         by the 5–14% transient fraction."
    )
    .expect("w");
    writeln!(md).expect("w");
    let matrix = RecoveryMatrix::run(seed, ParallelSpec::AUTO, false).0;
    writeln!(md, "| Strategy | EI survived | EDN survived | EDT survived | Overall |").expect("w");
    writeln!(md, "|---|---|---|---|---|").expect("w");
    for strategy in StrategyKind::ALL {
        let ei = matrix.cell(FaultClass::EnvironmentIndependent, strategy);
        let edn = matrix.cell(FaultClass::EnvDependentNonTransient, strategy);
        let edt = matrix.cell(FaultClass::EnvDependentTransient, strategy);
        let all = matrix.overall(strategy);
        writeln!(
            md,
            "| {} | {}/{} | {}/{} | {}/{} | {}/{} ({:.0}%) |",
            strategy.name(),
            ei.survived,
            ei.total,
            edn.survived,
            edn.total,
            edt.survived,
            edt.total,
            all.survived,
            all.total,
            all.rate() * 100.0
        )
        .expect("w");
    }
    writeln!(md).expect("w");
    let restart_pct = matrix.overall(StrategyKind::Restart).rate() * 100.0;
    writeln!(
        md,
        "Measured overall generic (restart) survival: **{restart_pct:.1}%**, inside the \
         paper's 5–14% transient band — reproducing the conclusion that generic \
         recovery \"will not be sufficient\"."
    )
    .expect("w");
    writeln!(md).expect("w");

    // ---- E10: Lee-Iyer ----
    let rec = TandemReconciliation::default();
    writeln!(md, "## E10: §7 Lee–Iyer reconciliation").expect("w");
    writeln!(md).expect("w");
    writeln!(md, "| Quantity | Paper | Measured |").expect("w");
    writeln!(md, "|---|---|---|").expect("w");
    writeln!(md, "| raw process-pair recovery | 82% | {:.0}% |", rec.raw_recovered).expect("w");
    writeln!(
        md,
        "| transient under purely generic pairs | 29% | {:.0}% |",
        rec.pure_generic_transient()
    )
    .expect("w");
    writeln!(md).expect("w");

    // ---- E11-E13: ablations ----
    writeln!(md, "## E11: checkpoint-interval ablation (rollback recovery)").expect("w");
    writeln!(md).expect("w");
    writeln!(md, "| Interval | Survived | Messages replayed |").expect("w");
    writeln!(md, "|---|---|---|").expect("w");
    for p in crate::ablation::sweep_checkpoint_interval(&[1, 2, 4, 8, 16], seed) {
        writeln!(md, "| {} | {} | {} |", p.interval, p.survived, p.replayed).expect("w");
    }
    writeln!(md).expect("w");
    writeln!(
        md,
        "Longer intervals trade checkpoint frequency for replay work; survival of the \
         transient fault is unaffected (§6.3)."
    )
    .expect("w");
    writeln!(md).expect("w");

    writeln!(md, "## E12: perturbation ablation (progressive retry, Wang93)").expect("w");
    writeln!(md).expect("w");
    writeln!(md, "| Retries | Unchanged-env retry survived | Perturbed retry survived |")
        .expect("w");
    writeln!(md, "|---|---|---|").expect("w");
    for p in crate::ablation::sweep_perturbation(&[1, 2, 3, 5], 48) {
        writeln!(
            md,
            "| {} | {}/{} | {}/{} |",
            p.retries, p.instant_survived, p.seeds, p.progressive_survived, p.seeds
        )
        .expect("w");
    }
    writeln!(md).expect("w");
    writeln!(
        md,
        "Inducing event reordering increases the chance a race experiences a \
         different operating environment on retry (§7); it never converts an \
         environment-independent fault."
    )
    .expect("w");
    writeln!(md).expect("w");

    writeln!(md, "## E13: rejuvenation-period ablation (Huang95)").expect("w");
    writeln!(md).expect("w");
    writeln!(md, "| Period | Survived | Failures observed |").expect("w");
    writeln!(md, "|---|---|---|").expect("w");
    for p in crate::ablation::sweep_rejuvenation(&[1, 2, 3, 4, 8], seed) {
        writeln!(md, "| {} | {} | {} |", p.period, p.survived, p.failures).expect("w");
    }
    writeln!(md).expect("w");
    writeln!(
        md,
        "Rejuvenating more often than the leak threshold prevents the failure \
         entirely — the proactive, application-specific mechanism §6.2 describes \
         for Apache."
    )
    .expect("w");
    writeln!(md).expect("w");

    // ---- E14: oblivious-recovery cost frontier ----
    writeln!(md, "## E14: oblivious-recovery cost frontier (seed {seed}, 6000 requests)")
        .expect("w");
    writeln!(md).expect("w");
    writeln!(
        md,
        "E9 shows the environment-independent majority survives no generic \
         strategy. Failure-oblivious recovery rescues it anyway — by abandoning \
         the §2 roll-back contract — and a per-app correctness oracle prices the \
         rescue in silently wrong answers (DESIGN.md §16). Costs below are summed \
         over the EI control and the EDN state-leak plans:"
    )
    .expect("w");
    writeln!(md).expect("w");
    let spec = LoadSpec { seed, requests: 6_000, arrival: ArrivalKind::Poisson };
    let oblivious = ObliviousReport::run(spec, ParallelSpec::AUTO, false).0;
    let (ei, edn) = (FaultClass::EnvironmentIndependent, FaultClass::EnvDependentNonTransient);
    writeln!(
        md,
        "| Mode | EI availability | EI dropped | Discarded | Manufactured | Oracle violations |"
    )
    .expect("w");
    writeln!(md, "|---|---|---|---|---|---|").expect("w");
    for mode in HealMode::ALL {
        let stats = oblivious.class_stats(ei, mode);
        let (ei_disc, ei_man, ei_viol) = oblivious.class_costs(ei, mode);
        let (edn_disc, edn_man, edn_viol) = oblivious.class_costs(edn, mode);
        writeln!(
            md,
            "| {} | {:.2}% | {} | {} | {} | {} |",
            mode.name(),
            100.0 * stats.availability(),
            stats.dropped,
            ei_disc + edn_disc,
            ei_man + edn_man,
            ei_viol + edn_viol,
        )
        .expect("w");
    }
    writeln!(md).expect("w");
    let restart_ei = oblivious.class_stats(ei, HealMode::Restart);
    let discard_ei = oblivious.class_stats(ei, HealMode::Oblivious);
    let (_, man_ei, _) = oblivious.class_costs(ei, HealMode::Manufactured);
    let (_, _, man_viol_edn) = oblivious.class_costs(edn, HealMode::Manufactured);
    let (_, _, scrub_viol_edn) = oblivious.class_costs(edn, HealMode::Scrub);
    writeln!(md, "| Finding | Measured | Match |").expect("w");
    writeln!(md, "|---|---|---|").expect("w");
    writeln!(
        md,
        "| restart drops EI requests (the paper's limit) | {} dropped | {} |",
        restart_ei.dropped,
        tick(restart_ei.dropped > 0)
    )
    .expect("w");
    writeln!(
        md,
        "| discarding rescues every EI drop, visibly | {} dropped | {} |",
        discard_ei.dropped,
        tick(discard_ei.dropped == 0)
    )
    .expect("w");
    writeln!(
        md,
        "| manufactured values rescue silently, and wrongly | {man_viol_edn} state-leak oracle \
         violations, {man_ei} EI substitutes | {} |",
        tick(man_viol_edn > 0 && man_ei > 0)
    )
    .expect("w");
    writeln!(
        md,
        "| only state scrub heals the leak with a clean oracle | {scrub_viol_edn} violations | {} |",
        tick(scrub_viol_edn == 0)
    )
    .expect("w");
    writeln!(
        md,
        "| every class contract checked, none contradicted | {} anomalies | {} |",
        oblivious.anomalies.len(),
        tick(oblivious.anomalies.is_empty())
    )
    .expect("w");
    writeln!(md).expect("w");
    writeln!(
        md,
        "The rescue is real and so is the bill: going oblivious converts the \
         paper's unrecoverable majority from dropped requests into refusals or \
         silently wrong answers. Only the state-aware scrub gets availability \
         *and* correctness — and only on the fault its state taxonomy covers."
    )
    .expect("w");
    writeln!(md).expect("w");

    // ---- E15: distributed IPC fault plane ----
    writeln!(md, "## E15: distributed IPC fault plane (seed {seed}, 7200 requests)").expect("w");
    writeln!(md).expect("w");
    writeln!(
        md,
        "The paper's study is confined to one process; §8 asks how recovery \
         would fare in systems *designed* for it. E15 wires the three apps \
         into a service graph (clients → miniweb → minidb, minide as operator \
         console) and replays the Theseus/MINIX3 IPC fault table on the wire, \
         racing process supervision against per-channel recovery across a \
         retry-budget sweep (DESIGN.md §17). Class cells below are at the \
         full budget:"
    )
    .expect("w");
    writeln!(md).expect("w");
    let spec = LoadSpec { seed, requests: 7_200, arrival: ArrivalKind::Poisson };
    let graph = GraphReport::run(spec, ParallelSpec::AUTO, false).0;
    let full = *GRAPH_BUDGETS.last().expect("sweep is nonempty");
    writeln!(md, "| Class | Plane | Availability | Dropped | TTR p50 | Amplification |")
        .expect("w");
    writeln!(md, "|---|---|---|---|---|---|").expect("w");
    for class in FaultClass::ALL {
        for plane in faultstudy_graph::PlaneKind::ALL {
            let g = graph.class_graph(class, plane, full);
            if g.base.offered == 0 {
                continue;
            }
            let ttr = match g.ttr.p50() {
                Some(nanos) => format!("{:.2} ms", nanos as f64 / 1e6),
                None => "—".to_owned(),
            };
            writeln!(
                md,
                "| {} | {} | {:.2}% | {} | {} | {:.2}× |",
                class.short(),
                plane.name(),
                100.0 * g.base.availability(),
                g.base.dropped,
                ttr,
                g.amplification(),
            )
            .expect("w");
        }
    }
    writeln!(md).expect("w");
    let edn = FaultClass::EnvDependentNonTransient;
    let ch = graph.class_graph(edn, faultstudy_graph::PlaneKind::Channel, full);
    let pr = graph.class_graph(edn, faultstudy_graph::PlaneKind::Process, full);
    let ttr_ratio = match (ch.ttr.p50(), pr.ttr.p50()) {
        (Some(c), Some(p)) if c > 0 => p as f64 / c as f64,
        _ => 0.0,
    };
    let amp = graph.max_amplification(full);
    writeln!(md, "| Finding | Measured | Match |").expect("w");
    writeln!(md, "|---|---|---|").expect("w");
    writeln!(
        md,
        "| per-channel recovery beats node restarts on sticky wedges | TTR p50 ratio \
         {ttr_ratio:.1}×, {} dropped | {} |",
        ch.base.dropped,
        tick(ttr_ratio > 1.0 && ch.base.dropped == 0)
    )
    .expect("w");
    writeln!(
        md,
        "| client retries amplify downstream load | peak db amplification {amp:.2}× | {} |",
        tick(amp > 1.0)
    )
    .expect("w");
    let ei_drops: u64 = faultstudy_graph::PlaneKind::ALL
        .iter()
        .map(|&p| graph.class_stats(FaultClass::EnvironmentIndependent, p, full).dropped)
        .sum();
    writeln!(
        md,
        "| wire defects defeat both planes | {ei_drops} dropped across planes | {} |",
        tick(
            faultstudy_graph::PlaneKind::ALL
                .iter()
                .all(
                    |&p| graph.class_stats(FaultClass::EnvironmentIndependent, p, full).dropped > 0
                )
        )
    )
    .expect("w");
    writeln!(
        md,
        "| every wire contract checked, none contradicted | {} anomalies | {} |",
        graph.anomalies().len(),
        tick(graph.anomalies().is_empty())
    )
    .expect("w");
    writeln!(md).expect("w");
    writeln!(
        md,
        "The taxonomy survives the trip onto the wire: one-shot faults retry \
         away, sticky channel wedges recover — orders faster when the channel, \
         not the process, is the recovery unit — and deterministic defects \
         defeat every plane. The new cost is distributed: each retry a tier \
         spends re-drives the tiers below it."
    )
    .expect("w");
    writeln!(md).expect("w");

    // ---- A1: §3 assumption sensitivity ----
    writeln!(md, "## A1: §3 recovery-assumption sensitivity").expect("w");
    writeln!(md).expect("w");
    writeln!(
        md,
        "§3 notes the transient/nontransient split depends on the recovery systems \
         in place (e.g. storage that auto-grows would re-classify full-disk faults \
         as transient). Re-classifying the corpus under those assumptions:"
    )
    .expect("w");
    writeln!(md).expect("w");
    writeln!(md, "| Assumptions | EI | EDN | EDT |").expect("w");
    writeln!(md, "|---|---|---|---|").expect("w");
    for (label, counts) in assumption_sensitivity() {
        writeln!(md, "| {label} | {} | {} | {} |", counts[0], counts[1], counts[2]).expect("w");
    }
    writeln!(md).expect("w");
    writeln!(
        md,
        "Even the most generous assumptions only move a minority of the 14 \
         nontransient faults; the 113 deterministic faults are untouched, so the \
         paper's conclusion is insensitive to this choice."
    )
    .expect("w");
    writeln!(md).expect("w");

    // ---- A2: §7 related work ----
    let transient_pct = d.transient.1;
    let related = faultstudy_report::RelatedWork::paper(transient_pct);
    writeln!(md, "## A2: §7 related-work comparison").expect("w");
    writeln!(md).expect("w");
    writeln!(md, "```text\n{related}```").expect("w");
    writeln!(md).expect("w");

    md
}

/// Re-classifies the corpus under each §3 assumption set; returns
/// `(label, [EI, EDN, EDT])` rows.
pub fn assumption_sensitivity() -> Vec<(&'static str, [u32; 3])> {
    use faultstudy_core::classify::{Classifier, RecoveryAssumptions};
    use faultstudy_core::evidence::Evidence;
    let sets = [
        ("baseline (paper)", RecoveryAssumptions::default()),
        (
            "auto-growing storage",
            RecoveryAssumptions { storage_auto_grows: true, resources_garbage_collected: false },
        ),
        (
            "resource garbage collection",
            RecoveryAssumptions { storage_auto_grows: false, resources_garbage_collected: true },
        ),
        (
            "both",
            RecoveryAssumptions { storage_auto_grows: true, resources_garbage_collected: true },
        ),
    ];
    sets.into_iter()
        .map(|(label, assumptions)| {
            let classifier = Classifier::with_assumptions(assumptions);
            let mut counts = [0u32; 3];
            for fault in faultstudy_corpus::full_corpus() {
                let class = match fault.trigger() {
                    None => FaultClass::EnvironmentIndependent,
                    Some(cond) => {
                        classifier.classify_evidence(&Evidence::of_conditions([cond])).class
                    }
                };
                let idx = FaultClass::ALL.iter().position(|c| *c == class).expect("class in ALL");
                counts[idx] += 1;
            }
            (label, counts)
        })
        .collect()
}

fn tick(ok: bool) -> &'static str {
    if ok {
        "✓"
    } else {
        "✗ MISMATCH"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_contains_every_experiment_and_no_mismatches() {
        let md = experiments_markdown(2000);
        for section in ["E1–E3", "E4–E6", "E7", "E8", "E9", "E10", "E14", "E15"] {
            assert!(md.contains(section), "missing section {section}");
        }
        assert!(!md.contains("MISMATCH"), "paper-vs-measured mismatch:\n{md}");
    }

    #[test]
    fn report_is_deterministic_per_seed() {
        assert_eq!(experiments_markdown(7), experiments_markdown(7));
    }

    #[test]
    fn report_mentions_the_headline_band() {
        let md = experiments_markdown(2000);
        assert!(md.contains("5–14% transient band"));
        assert!(md.contains("139"));
    }

    #[test]
    fn assumption_sensitivity_moves_only_nontransient_faults() {
        let rows = assumption_sensitivity();
        let baseline = rows[0].1;
        assert_eq!(baseline, [113, 14, 12], "paper classification");
        for (label, counts) in &rows {
            assert_eq!(counts[0], 113, "{label}: EI count is invariant");
            assert_eq!(counts.iter().sum::<u32>(), 139, "{label}");
        }
        // "Both" is the most generous: strictly more transient than baseline.
        let both = rows[3].1;
        assert!(both[2] > baseline[2], "{both:?}");
        // Storage assumptions move the 3 disk faults of Apache + 2 of MySQL
        // plus the cache fault: full-fs x2, max-file x2, disk-cache x1 = 5.
        let storage = rows[1].1;
        assert_eq!(storage[2] - baseline[2], 5, "{storage:?}");
        // GC moves the 3 fd-exhaustion faults and the leak: 4 more.
        let gc = rows[2].1;
        assert_eq!(gc[2] - baseline[2], 4, "{gc:?}");
    }
}
