//! Recovery-equivalence suite: the crash-recovery subsystem (write-ahead
//! logging, snapshots, replay) must be *observationally silent* on crash-free
//! runs. Force-enabling recovery via [`Harness::enable_recovery`] on every
//! protocol and baseline family — the same ten scenarios `engine_equivalence.rs`
//! pins — must produce a `RunReport` equal in every field to the run without
//! recovery, on the pinned-serial path, the forced-parallel path, and the
//! discrete-event engine.
//!
//! This is the contract that lets `Harness::assemble` auto-enable recovery
//! whenever a churn schedule contains crash events: turning the subsystem on
//! costs nothing observable until a node actually crashes.
//!
//! [`Harness::enable_recovery`]: uba_simnet::sim::Harness::enable_recovery

use uba_baselines::{DolevApproxFactory, KnownRotorFactory, PhaseKingFactory, StBroadcastFactory};
use uba_core::sim::{
    AdversaryKind, ParallelConsensusFactory, RunReport, ScenarioExt, Simulation, TotalOrderPlan,
};
use uba_simnet::{EngineKind, IdSpace};

/// One run configuration: which step path and whether the write-ahead recovery
/// subsystem is force-enabled before the run.
#[derive(Clone, Copy)]
struct Mode {
    parallel: bool,
    recovery: bool,
}

type Build = Box<dyn Fn(Mode) -> RunReport>;

/// The ten protocol/baseline families under the exact scenarios pinned by
/// `engine_equivalence.rs` (same seeds, sizes, adversaries and id spaces).
fn scenarios() -> Vec<(&'static str, Build)> {
    let inputs: Vec<u64> = (0..7).map(|i| i % 2).collect();
    let approx_inputs: Vec<f64> = (0..7).map(|i| i as f64 * 5.0).collect();
    let pairs: Vec<(u64, u64)> = (0..4).map(|i| (i, 50 + i)).collect();

    vec![
        (
            "consensus",
            Box::new({
                let inputs = inputs.clone();
                move |mode: Mode| {
                    let mut harness = Simulation::scenario()
                        .correct(7)
                        .byzantine(2)
                        .seed(42)
                        .adversary(AdversaryKind::SplitVote)
                        .consensus(&inputs);
                    if mode.recovery {
                        harness = harness.enable_recovery();
                    }
                    harness =
                        harness.parallel_threshold(if mode.parallel { 1 } else { usize::MAX });
                    harness.run().unwrap()
                }
            }) as Build,
        ),
        (
            "reliable-broadcast",
            Box::new(|mode: Mode| {
                let mut harness = Simulation::scenario()
                    .correct(7)
                    .byzantine(2)
                    .seed(43)
                    .adversary(AdversaryKind::PartialAnnounce)
                    .broadcast(42)
                    .rounds(12);
                if mode.recovery {
                    harness = harness.enable_recovery();
                }
                harness = harness.parallel_threshold(if mode.parallel { 1 } else { usize::MAX });
                harness.run().unwrap()
            }),
        ),
        (
            "rotor",
            Box::new(|mode: Mode| {
                let mut harness = Simulation::scenario()
                    .correct(7)
                    .byzantine(2)
                    .seed(44)
                    .adversary(AdversaryKind::AnnounceThenSilent)
                    .rotor();
                if mode.recovery {
                    harness = harness.enable_recovery();
                }
                harness = harness.parallel_threshold(if mode.parallel { 1 } else { usize::MAX });
                harness.run().unwrap()
            }),
        ),
        (
            "approx",
            Box::new({
                let approx_inputs = approx_inputs.clone();
                move |mode: Mode| {
                    let mut harness = Simulation::scenario()
                        .correct(7)
                        .byzantine(2)
                        .seed(45)
                        .adversary(AdversaryKind::Worst)
                        .approx(&approx_inputs);
                    if mode.recovery {
                        harness = harness.enable_recovery();
                    }
                    harness =
                        harness.parallel_threshold(if mode.parallel { 1 } else { usize::MAX });
                    harness.run().unwrap()
                }
            }),
        ),
        (
            "parallel-consensus",
            Box::new({
                let pairs = pairs.clone();
                move |mode: Mode| {
                    let mut harness = Simulation::scenario()
                        .correct(7)
                        .byzantine(2)
                        .seed(46)
                        .max_rounds(500)
                        .adversary(AdversaryKind::Worst)
                        .build(ParallelConsensusFactory::new(pairs.clone()));
                    if mode.recovery {
                        harness = harness.enable_recovery();
                    }
                    harness =
                        harness.parallel_threshold(if mode.parallel { 1 } else { usize::MAX });
                    harness.run().unwrap()
                }
            }),
        ),
        (
            "total-order",
            Box::new(|mode: Mode| {
                let plan = TotalOrderPlan::rounds(20)
                    .event(2, 0, 11)
                    .event(3, 1, 22)
                    .leave(10, 2);
                let mut harness = Simulation::scenario()
                    .correct(7)
                    .byzantine(2)
                    .seed(0xE0)
                    .max_rounds(100)
                    .adversary(AdversaryKind::Worst)
                    .total_order(plan);
                if mode.recovery {
                    harness = harness.enable_recovery();
                }
                harness = harness.parallel_threshold(if mode.parallel { 1 } else { usize::MAX });
                harness.run().unwrap()
            }),
        ),
        (
            "phase-king",
            Box::new({
                let inputs = inputs.clone();
                move |mode: Mode| {
                    let mut harness = Simulation::scenario()
                        .correct(7)
                        .byzantine(2)
                        .ids(IdSpace::Consecutive)
                        .seed(0)
                        .max_rounds(300)
                        .build(PhaseKingFactory::new(inputs.clone()));
                    if mode.recovery {
                        harness = harness.enable_recovery();
                    }
                    harness =
                        harness.parallel_threshold(if mode.parallel { 1 } else { usize::MAX });
                    harness.run().unwrap()
                }
            }),
        ),
        (
            "srikanth-toueg",
            Box::new(|mode: Mode| {
                let mut harness = Simulation::scenario()
                    .correct(7)
                    .byzantine(2)
                    .ids(IdSpace::Consecutive)
                    .seed(0)
                    .build(StBroadcastFactory::new(42))
                    .rounds(8);
                if mode.recovery {
                    harness = harness.enable_recovery();
                }
                harness = harness.parallel_threshold(if mode.parallel { 1 } else { usize::MAX });
                harness.run().unwrap()
            }),
        ),
        (
            "known-rotor",
            Box::new(|mode: Mode| {
                let mut harness = Simulation::scenario()
                    .correct(7)
                    .byzantine(2)
                    .ids(IdSpace::Consecutive)
                    .seed(0)
                    .max_rounds(100)
                    .build(KnownRotorFactory);
                if mode.recovery {
                    harness = harness.enable_recovery();
                }
                harness = harness.parallel_threshold(if mode.parallel { 1 } else { usize::MAX });
                harness.run().unwrap()
            }),
        ),
        (
            "dolev-approx",
            Box::new(|mode: Mode| {
                let inputs: Vec<f64> = (0..8).map(|i| i as f64 * 3.0).collect();
                let mut harness = Simulation::scenario()
                    .correct(8)
                    .byzantine(2)
                    .ids(IdSpace::Consecutive)
                    .seed(0)
                    .build(DolevApproxFactory::new(inputs));
                if mode.recovery {
                    harness = harness.enable_recovery();
                }
                harness = harness.parallel_threshold(if mode.parallel { 1 } else { usize::MAX });
                harness.run().unwrap()
            }),
        ),
    ]
}

#[test]
fn force_enabled_recovery_is_byte_identical_on_crash_free_runs() {
    for (name, build) in &scenarios() {
        for parallel in [false, true] {
            let baseline = build(Mode {
                parallel,
                recovery: false,
            });
            let recovered = build(Mode {
                parallel,
                recovery: true,
            });
            assert_eq!(
                baseline, recovered,
                "{name} (parallel = {parallel}): force-enabled recovery changed the report"
            );
            assert!(
                recovered.recovery.is_none(),
                "{name}: a crash-free run must not grow a recovery section"
            );
        }
    }
}

#[test]
fn force_enabled_recovery_is_byte_identical_on_the_event_engine() {
    // The event engine shares the write-ahead discipline (log inbox + sent
    // digests before the adversary phase) but reaches it through a different
    // scheduler; pin the same silence there. Consensus, total ordering and a
    // known-(n, f) baseline cover the three factory shapes.
    type EventBuild = Box<dyn Fn(bool) -> RunReport>;
    let inputs: Vec<u64> = (0..7).map(|i| i % 2).collect();
    let cases: Vec<(&str, EventBuild)> = vec![
        (
            "consensus",
            Box::new({
                let inputs = inputs.clone();
                move |recovery| {
                    let mut harness = Simulation::scenario()
                        .correct(7)
                        .byzantine(2)
                        .seed(42)
                        .engine(EngineKind::event())
                        .adversary(AdversaryKind::SplitVote)
                        .consensus(&inputs);
                    if recovery {
                        harness = harness.enable_recovery();
                    }
                    harness.run().unwrap()
                }
            }) as EventBuild,
        ),
        (
            "total-order",
            Box::new(|recovery| {
                let plan = TotalOrderPlan::rounds(20).event(2, 0, 11).event(3, 1, 22);
                let mut harness = Simulation::scenario()
                    .correct(7)
                    .byzantine(2)
                    .seed(0xE0)
                    .max_rounds(100)
                    .engine(EngineKind::event())
                    .adversary(AdversaryKind::Worst)
                    .total_order(plan);
                if recovery {
                    harness = harness.enable_recovery();
                }
                harness.run().unwrap()
            }),
        ),
        (
            "phase-king",
            Box::new({
                let inputs = inputs.clone();
                move |recovery| {
                    let mut harness = Simulation::scenario()
                        .correct(7)
                        .byzantine(2)
                        .ids(IdSpace::Consecutive)
                        .seed(0)
                        .max_rounds(300)
                        .engine(EngineKind::event())
                        .build(PhaseKingFactory::new(inputs.clone()));
                    if recovery {
                        harness = harness.enable_recovery();
                    }
                    harness.run().unwrap()
                }
            }),
        ),
    ];

    for (name, build) in &cases {
        let baseline = build(false);
        let recovered = build(true);
        assert_eq!(
            baseline, recovered,
            "{name} (event engine): force-enabled recovery changed the report"
        );
        assert!(recovered.recovery.is_none());
    }
}
