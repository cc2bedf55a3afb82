//! The one contract every campaign report keeps: the recovery matrix and
//! the six campaigns each implement `Campaign`, and each is a pure
//! function of its spec. For every spec below:
//!
//! - the report, its JSON, its text and its registry are the same bytes
//!   as the 1-thread instrumented run's at 2, 4 and 8 threads, at the
//!   host's available parallelism, and at 2 and 4 threads with every
//!   chunk size in `CHUNKS`;
//! - the plain run gives the same report and an empty registry;
//! - the report's JSON text parses back to the tree it was written
//!   from, so the text loses no float digit and no escaped character;
//! - those bytes hash to the digest written beside the spec, so output
//!   that changes across commits fails here. A change that alters a
//!   report on purpose updates the digest and says why.

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

/// FNV-1a-64 over the three byte strings, each preceded by its length as
/// eight little-endian bytes (the benchmark's digest).
fn fnv1a(parts: &[String; 3]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for part in parts {
        eat(&(part.len() as u64).to_le_bytes());
        eat(part.as_bytes());
    }
    hash
}

/// Holds `C` to the contract at `spec`; `digest` is the FNV-1a-64 of the
/// 1-thread run's bytes.
fn keeps_the_contract<C>(spec: C::Spec, digest: u64)
where
    C: Campaign + PartialEq + Debug,
    C::Spec: Copy + Debug,
{
    let reference = C::run(spec, ParallelSpec::SEQUENTIAL, true);
    let reference_bytes = bytes(&reference);
    let got = fnv1a(&reference_bytes);
    assert_eq!(got, digest, "{} {spec:?}: digest {got:#018x} differs from the pinned one", C::NAME);
    for parallel in executions() {
        let run = C::run(spec, parallel, true);
        assert_eq!(run.0, reference.0, "{} {spec:?}: report at {parallel:?}", C::NAME);
        assert_eq!(run.1, reference.1, "{} {spec:?}: registry at {parallel:?}", C::NAME);
        assert_eq!(bytes(&run), reference_bytes, "{} {spec:?}: bytes at {parallel:?}", C::NAME);
    }
    let (plain, registry) = C::run(spec, ParallelSpec::AUTO, false);
    assert_eq!(plain, reference.0, "{} {spec:?}: instrumentation perturbed the report", C::NAME);
    assert!(registry.is_empty(), "{} {spec:?}: a plain run recorded metrics", C::NAME);
    let parsed: serde_json::Value =
        serde_json::from_str(&reference_bytes[0]).expect("the report parses");
    assert_eq!(parsed, serde_json::to_value(&reference.0), "{} {spec:?}: lossless JSON", C::NAME);
}

#[test]
fn recovery_matrix_keeps_the_contract() {
    for (seed, digest) in [(77, 0xf3fa_8b94_2fb9_0617), (2000, 0x28cc_809d_9a1a_35f2)] {
        keeps_the_contract::<RecoveryMatrix>(seed, digest);
    }
}

#[test]
fn sampled_campaign_keeps_the_contract() {
    for (seed, digest) in [
        (1, 0x3ad9_bd32_9a31_926c),
        (7, 0xfd56_25bf_0de8_3b54),
        (42, 0xaa05_5be9_dadf_49fd),
        (2000, 0x91c3_cb51_7ca7_1c13),
    ] {
        keeps_the_contract::<CampaignReport>(CampaignSpec { samples: 130, seed }, digest);
    }
}

#[test]
fn inject_keeps_the_contract() {
    keeps_the_contract::<InjectReport>(InjectSpec { seed: 2000 }, 0x5b3b_bcf1_9fc4_c884);
}

#[test]
fn traffic_keeps_the_contract_under_every_arrival_process() {
    let digests = [0x52ce_2e4a_d382_a0a3, 0xa8e5_b7fc_73bf_a66b, 0xd149_1a81_6427_e6be];
    for (arrival, digest) in ArrivalKind::ALL.into_iter().zip(digests) {
        let spec = LoadSpec { seed: 7, requests: 3_780, arrival };
        keeps_the_contract::<TrafficReport>(spec, digest);
    }
}

#[test]
fn micro_keeps_the_contract() {
    let spec = LoadSpec { seed: 5, requests: 6_000, arrival: ArrivalKind::Poisson };
    keeps_the_contract::<MicroReport>(spec, 0x3071_b9ac_864d_a662);
}

#[test]
fn oblivious_keeps_the_contract() {
    let spec = LoadSpec { seed: 2000, requests: 6_000, arrival: ArrivalKind::Poisson };
    keeps_the_contract::<ObliviousReport>(spec, 0x68c6_a85f_edb7_8c79);
}

/// Every arrival process, since the console tick pops between session
/// events; bursty arrivals bunch them between silences.
#[test]
fn graph_keeps_the_contract() {
    let digests = [0x1281_e306_e2d7_7f8f, 0xc1f4_016c_809a_12dc, 0xad3f_afed_db71_d0d2];
    for (arrival, digest) in ArrivalKind::ALL.into_iter().zip(digests) {
        let spec = LoadSpec { seed: 5, requests: 7_200, arrival };
        keeps_the_contract::<GraphReport>(spec, digest);
    }
}
