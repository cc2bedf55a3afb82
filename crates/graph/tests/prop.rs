//! Differential property tests for the graph plane.
//!
//! The campaign rests on a channel with no injected faults being a plain
//! bounded FIFO: its delivery sequence is byte-identical to a `VecDeque`
//! reference for arbitrary send/recv interleavings.

use std::collections::VecDeque;

use faultstudy_env::Environment;
use faultstudy_graph::{
    graph_plans, run_graph, Channel, ChannelFaultKind, GraphFaultPlan, Persistence, PlaneKind,
    SendError, ServiceGraph, CHANNEL_CAPACITY,
};
use faultstudy_sim::time::{Duration, SimTime};
use faultstudy_traffic::{ArrivalKind, TrafficParams};
use proptest::prelude::*;

proptest! {
    /// Fault-free channel vs a sequential `VecDeque` reference: for any
    /// interleaving of sends and recvs, deliveries come back in exactly
    /// the reference order with exactly the reference payloads, and the
    /// bounded queue refuses exactly when the reference is at capacity.
    #[test]
    fn fault_free_channel_matches_the_sequential_reference(
        ops in prop::collection::vec(any::<u8>(), 1..200),
    ) {
        let mut ch = Channel::new("dut");
        let mut reference: VecDeque<(u64, String)> = VecDeque::new();
        let mut next_seq = 0u64;
        for (i, op) in ops.iter().enumerate() {
            if op % 3 != 0 {
                let body = format!("m{i}");
                if reference.len() >= CHANNEL_CAPACITY {
                    prop_assert_eq!(ch.send(body.clone()), Err(SendError::Full));
                } else {
                    let seq = ch.send(body.clone()).expect("reference has room");
                    prop_assert_eq!(seq, next_seq);
                    reference.push_back((next_seq, body));
                    next_seq += 1;
                }
            } else {
                match (ch.recv(), reference.pop_front()) {
                    (Some(got), Some((seq, body))) => {
                        prop_assert_eq!(got.seq, seq);
                        prop_assert_eq!(got.body, body);
                    }
                    (None, None) => {}
                    (got, want) => {
                        prop_assert!(false, "delivery diverged: got {:?}, want {:?}", got, want);
                    }
                }
            }
        }
        // Drain both to the end: the tails must agree too.
        while let Some((seq, body)) = reference.pop_front() {
            let got = ch.recv().expect("reference still has messages");
            prop_assert_eq!(got.seq, seq);
            prop_assert_eq!(got.body, body);
        }
        prop_assert!(ch.recv().is_none());
    }

    /// Graph fault plans are a pure function of the seed, with the
    /// arming-count shape the taxonomy dictates.
    #[test]
    fn graph_plans_are_pure_and_shaped_by_persistence(seed in any::<u64>()) {
        let plans = graph_plans(seed);
        prop_assert_eq!(&plans, &graph_plans(seed));
        prop_assert_eq!(plans.len(), 12);
        for plan in &plans {
            let want = match plan.kind.persistence() {
                Persistence::OneShot => 3,
                Persistence::Sticky => 2,
                Persistence::Defect => 1,
            };
            prop_assert_eq!(plan.events.len(), want, "{}", &plan.name);
            prop_assert!(plan.events.windows(2).all(|w| w[0].at < w[1].at));
        }
    }

    /// A whole graph unit replays byte-identically from its seeds for
    /// any fault kind, plane, and budget.
    #[test]
    fn graph_units_replay_byte_identically(
        seed in any::<u64>(),
        kind_index in 0usize..12,
        plane_index in 0usize..2,
        budget in 0u32..4,
    ) {
        let kind = ChannelFaultKind::ALL[kind_index];
        let plane = PlaneKind::ALL[plane_index];
        let drive = || {
            let mut env = Environment::builder().seed(seed).build();
            let mut graph = ServiceGraph::new(&mut env);
            let plans = graph_plans(seed);
            let plan: &GraphFaultPlan =
                plans.iter().find(|p| p.kind == kind).expect("every kind has a plan");
            let stats = run_graph(
                &mut env, &mut graph, plan, plane, budget,
                &TrafficParams::standard(ArrivalKind::Poisson, 40),
                seed ^ 5, seed ^ 6, seed ^ 7,
            );
            (stats, env.now())
        };
        prop_assert_eq!(drive(), drive());
    }
}

/// Not a proptest but the same differential idea: the control plan (no
/// events) must leave the graph's ledgers exactly as healthy traffic
/// leaves them — no faults, no recoveries, nothing lost on any edge.
#[test]
fn eventless_plan_is_a_true_control() {
    let control = GraphFaultPlan {
        name: "control".to_owned(),
        class: faultstudy_core::taxonomy::FaultClass::EnvDependentTransient,
        kind: ChannelFaultKind::S1SenderPageFault,
        events: Vec::new(),
    };
    assert_eq!(control.horizon(), SimTime::ZERO);
    let mut env = Environment::builder().seed(19).build();
    let mut graph = ServiceGraph::new(&mut env);
    let stats = run_graph(
        &mut env,
        &mut graph,
        &control,
        PlaneKind::Process,
        3,
        &TrafficParams::standard(ArrivalKind::Poisson, 100),
        1,
        2,
        3,
    );
    assert_eq!(stats.base.failures, 0);
    assert_eq!(stats.base.recoveries, 0);
    assert_eq!(stats.base.dropped, 0);
    assert_eq!(stats.edges.client_web.lost, 0);
    assert_eq!(stats.edges.web_db.lost, 0);
    assert_eq!(stats.edges.client_web.resets + stats.edges.web_db.resets, 0);
    assert_eq!(stats.cascade_depth.count(), 0);
    assert_eq!(stats.ttr.count(), 0);
    assert!(env.now() > SimTime::ZERO + Duration::ZERO);
}
