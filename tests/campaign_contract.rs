//! The one contract every campaign report keeps: the recovery matrix and
//! the six campaigns each implement `Campaign`, and each is a pure
//! function of its spec. For every spec below:
//!
//! - the report, its JSON, its text and its registry are the same bytes
//!   as the 1-thread instrumented run's at 2, 4 and 8 threads, at the
//!   host's available parallelism, and at 2 and 4 threads with every
//!   chunk size in `CHUNKS`;
//! - the plain run gives the same report and an empty registry;
//! - the report survives a JSON round trip.

use faultstudy::exec::ParallelSpec;
use faultstudy::harness::{
    Campaign, CampaignReport, CampaignSpec, GraphReport, InjectReport, InjectSpec, LoadSpec,
    MicroReport, ObliviousReport, RecoveryMatrix, TrafficReport,
};
use faultstudy::obs::MetricsRegistry;
use faultstudy::traffic::ArrivalKind;
use std::fmt::Debug;

/// Chunk sizes from one unit per chunk to every unit in one, including
/// the traffic campaign's 189 units, a third of them, and the sampled
/// campaign's 130 samples.
const CHUNKS: [usize; 9] = [1, 2, 7, 16, 63, 64, 130, 189, 1000];

/// Every execution the contract compares against the 1-thread run.
fn executions() -> Vec<ParallelSpec> {
    let threads = [2, 4, 8].map(ParallelSpec::threads).into_iter().chain([ParallelSpec::AUTO]);
    let chunked = [2, 4]
        .into_iter()
        .flat_map(|threads| CHUNKS.map(|chunk| ParallelSpec::threads(threads).with_chunk(chunk)));
    threads.chain(chunked).collect()
}

/// The serialized report, its text and the serialized registry.
fn bytes<C: Campaign>((report, registry): &(C, MetricsRegistry)) -> [String; 3] {
    let report_json = serde_json::to_string(report).expect("the report serializes");
    let registry_json = serde_json::to_string(registry).expect("the registry serializes");
    [report_json, report.text(), registry_json]
}

/// Holds `C` to the contract at `spec`; `parse` reads a report back from
/// its JSON.
fn keeps_the_contract<C>(spec: C::Spec, parse: fn(&str) -> serde_json::Result<C>)
where
    C: Campaign + PartialEq + Debug,
    C::Spec: Copy + Debug,
{
    let reference = C::run(spec, ParallelSpec::SEQUENTIAL, true);
    let reference_bytes = bytes(&reference);
    for parallel in executions() {
        let run = C::run(spec, parallel, true);
        assert_eq!(run.0, reference.0, "{} {spec:?}: report at {parallel:?}", C::NAME);
        assert_eq!(run.1, reference.1, "{} {spec:?}: registry at {parallel:?}", C::NAME);
        assert_eq!(bytes(&run), reference_bytes, "{} {spec:?}: bytes at {parallel:?}", C::NAME);
    }
    let (plain, registry) = C::run(spec, ParallelSpec::AUTO, false);
    assert_eq!(plain, reference.0, "{} {spec:?}: instrumentation perturbed the report", C::NAME);
    assert!(registry.is_empty(), "{} {spec:?}: a plain run recorded metrics", C::NAME);
    let parsed = parse(&reference_bytes[0]).expect("the report parses");
    assert_eq!(parsed, reference.0, "{} {spec:?}: JSON round trip", C::NAME);
}

#[test]
fn recovery_matrix_keeps_the_contract() {
    for seed in [77, 2000] {
        keeps_the_contract::<RecoveryMatrix>(seed, serde_json::from_str);
    }
}

#[test]
fn sampled_campaign_keeps_the_contract() {
    for seed in [1, 7, 42, 2000] {
        keeps_the_contract::<CampaignReport>(
            CampaignSpec { samples: 130, seed },
            serde_json::from_str,
        );
    }
}

#[test]
fn inject_keeps_the_contract() {
    keeps_the_contract::<InjectReport>(InjectSpec { seed: 2000 }, serde_json::from_str);
}

#[test]
fn traffic_keeps_the_contract_under_every_arrival_process() {
    for arrival in ArrivalKind::ALL {
        let spec = LoadSpec { seed: 7, requests: 3_780, arrival };
        keeps_the_contract::<TrafficReport>(spec, serde_json::from_str);
    }
}

#[test]
fn micro_keeps_the_contract() {
    let spec = LoadSpec { seed: 5, requests: 6_000, arrival: ArrivalKind::Poisson };
    keeps_the_contract::<MicroReport>(spec, serde_json::from_str);
}

#[test]
fn oblivious_keeps_the_contract() {
    let spec = LoadSpec { seed: 2000, requests: 6_000, arrival: ArrivalKind::Poisson };
    keeps_the_contract::<ObliviousReport>(spec, serde_json::from_str);
}

#[test]
fn graph_keeps_the_contract() {
    let spec = LoadSpec { seed: 5, requests: 7_200, arrival: ArrivalKind::Poisson };
    keeps_the_contract::<GraphReport>(spec, serde_json::from_str);
}
