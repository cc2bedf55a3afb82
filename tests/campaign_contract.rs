//! The one contract every campaign report keeps: the recovery matrix and
//! the six campaigns each implement `Campaign`, and each is a pure
//! function of its spec. For every spec below:
//!
//! - the report, its JSON and its text are the same bytes as the 1-thread
//!   run's at 2, 4 and 8 threads, at the host's available parallelism,
//!   and at 2 and 4 threads with every chunk size in `CHUNKS`;
//! - the report's JSON text parses back to the tree it was written
//!   from, so the text loses no float digit and no escaped character;
//! - those bytes hash to the digest written beside the spec, so output
//!   that changes across commits fails here. A change that alters a
//!   report on purpose updates the digest and says why.
//!
//! The matrix, the injection campaign and the oblivious campaign also run
//! instrumented (`faultstudy metrics` reads the first two registries, the
//! benchmark the third). For those the registry is the same bytes at
//! every execution too, the instrumented report equals the plain one, and
//! the digest covers the instrumented run's registry as well.

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

/// The serialized report and its text.
fn bytes<C: Campaign>(report: &C) -> Vec<String> {
    vec![serde_json::to_string(report).expect("the report serializes"), report.text()]
}

/// FNV-1a-64 over the byte strings, each preceded by its length as
/// eight little-endian bytes (the benchmark's digest).
fn fnv1a(parts: &[String]) -> u64 {
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

/// Holds `C`'s plain run to the contract at `spec` and returns the
/// 1-thread report and its bytes.
fn keeps_the_plain_contract<C>(spec: C::Spec) -> (C, Vec<String>)
where
    C: Campaign + PartialEq + Debug,
    C::Spec: Copy + Debug,
{
    let reference = C::run(spec, ParallelSpec::SEQUENTIAL);
    let reference_bytes = bytes(&reference);
    for parallel in executions() {
        let run = C::run(spec, parallel);
        assert_eq!(run, reference, "{} {spec:?}: report at {parallel:?}", C::NAME);
        assert_eq!(bytes(&run), reference_bytes, "{} {spec:?}: bytes at {parallel:?}", C::NAME);
    }
    let parsed: serde_json::Value =
        serde_json::from_str(&reference_bytes[0]).expect("the report parses");
    assert_eq!(parsed, serde_json::to_value(&reference), "{} {spec:?}: lossless JSON", C::NAME);
    (reference, reference_bytes)
}

/// Holds `C` to the plain contract at `spec`; `digest` is the FNV-1a-64 of
/// the 1-thread run's report JSON and text.
fn keeps_the_contract<C>(spec: C::Spec, digest: u64)
where
    C: Campaign + PartialEq + Debug,
    C::Spec: Copy + Debug,
{
    let (_, reference_bytes) = keeps_the_plain_contract::<C>(spec);
    let got = fnv1a(&reference_bytes);
    assert_eq!(got, digest, "{} {spec:?}: digest {got:#018x} differs from the pinned one", C::NAME);
}

/// Holds `C` to the plain contract at `spec`, and its instrumented run
/// `instrumented` to the registry contract; `digest` is the FNV-1a-64 of
/// the 1-thread instrumented run's report JSON, text and registry JSON.
fn keeps_the_instrumented_contract<C>(
    spec: C::Spec,
    digest: u64,
    instrumented: fn(C::Spec, ParallelSpec) -> (C, MetricsRegistry),
) where
    C: Campaign + PartialEq + Debug,
    C::Spec: Copy + Debug,
{
    let (plain, mut reference_bytes) = keeps_the_plain_contract::<C>(spec);
    let (report, registry) = instrumented(spec, ParallelSpec::SEQUENTIAL);
    assert_eq!(report, plain, "{} {spec:?}: instrumentation perturbed the report", C::NAME);
    let registry_json = serde_json::to_string(&registry).expect("the registry serializes");
    for parallel in executions() {
        let (run, run_registry) = instrumented(spec, parallel);
        assert_eq!(run, plain, "{} {spec:?}: instrumented report at {parallel:?}", C::NAME);
        assert_eq!(run_registry, registry, "{} {spec:?}: registry at {parallel:?}", C::NAME);
        let json = serde_json::to_string(&run_registry).expect("the registry serializes");
        assert_eq!(json, registry_json, "{} {spec:?}: registry bytes at {parallel:?}", C::NAME);
    }
    reference_bytes.push(registry_json);
    let got = fnv1a(&reference_bytes);
    assert_eq!(got, digest, "{} {spec:?}: digest {got:#018x} differs from the pinned one", C::NAME);
}

#[test]
fn recovery_matrix_keeps_the_contract() {
    for (seed, digest) in [(77, 0xf3fa_8b94_2fb9_0617), (2000, 0x28cc_809d_9a1a_35f2)] {
        keeps_the_instrumented_contract(seed, digest, RecoveryMatrix::run_instrumented);
    }
}

#[test]
fn sampled_campaign_keeps_the_contract() {
    for (seed, digest) in [
        (1, 0x5075_2626_6ab3_3a65),
        (7, 0xec18_b385_0584_b5be),
        (42, 0xc6df_4c47_655d_0b77),
        (2000, 0x502d_484d_7832_3b47),
    ] {
        keeps_the_contract::<CampaignReport>(CampaignSpec { samples: 130, seed }, digest);
    }
}

#[test]
fn inject_keeps_the_contract() {
    let spec = InjectSpec { seed: 2000 };
    keeps_the_instrumented_contract(spec, 0x5b3b_bcf1_9fc4_c884, InjectReport::run_instrumented);
}

#[test]
fn traffic_keeps_the_contract_under_every_arrival_process() {
    let digests = [0x78ff_9b24_a537_03f0, 0xf64d_412c_94cc_bb03, 0xd850_989f_754c_b85f];
    for (arrival, digest) in ArrivalKind::ALL.into_iter().zip(digests) {
        let spec = LoadSpec { seed: 7, requests: 3_780, arrival };
        keeps_the_contract::<TrafficReport>(spec, digest);
    }
}

#[test]
fn micro_keeps_the_contract() {
    let spec = LoadSpec { seed: 5, requests: 6_000, arrival: ArrivalKind::Poisson };
    keeps_the_contract::<MicroReport>(spec, 0x5f39_6daf_1c93_0aee);
}

#[test]
fn oblivious_keeps_the_contract() {
    let spec = LoadSpec { seed: 2000, requests: 6_000, arrival: ArrivalKind::Poisson };
    let instrumented = ObliviousReport::run_instrumented;
    keeps_the_instrumented_contract(spec, 0x68c6_a85f_edb7_8c79, instrumented);
}

/// Every arrival process, since the console tick pops between session
/// events; bursty arrivals bunch them between silences.
#[test]
fn graph_keeps_the_contract() {
    let digests = [0x75e8_bab8_94a4_d147, 0x5713_5299_bf0b_ff0e, 0x95a7_a325_fff2_a351];
    for (arrival, digest) in ArrivalKind::ALL.into_iter().zip(digests) {
        let spec = LoadSpec { seed: 5, requests: 7_200, arrival };
        keeps_the_contract::<GraphReport>(spec, digest);
    }
}
