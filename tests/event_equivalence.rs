//! Event-engine equivalence suite: the discrete-event scheduler behind
//! `EngineKind::Event` must be a *conservative extension* of the synchronous
//! engine. Three layers of evidence:
//!
//! 1. under zero-jitter timing (`TimingSpec::synchronous()`) every protocol
//!    family and baseline produces a `RunReport` **byte-identical** to the
//!    synchronous engine's — same rounds, message counts, deliveries,
//!    per-round metrics, outputs and verdicts, serial and parallel alike;
//! 2. the timing features the synchronous engine cannot express are
//!    deterministic: seeded same-instant reordering reproduces exactly, and
//!    every family runs reproducibly under a GST partial-synchrony model;
//! 3. a GST scenario demonstrates behaviour outside the synchronous model:
//!    under a late stabilisation time the network is totally silent — zero
//!    deliveries, a state the synchronous engine cannot express, where round-1
//!    traffic always arrives in round 2 — and the queued announcements only
//!    materialise once virtual time crosses GST, too late for the
//!    round-programmed protocol to act on them.

use uba_baselines::{DolevApproxFactory, KnownRotorFactory, PhaseKingFactory, StBroadcastFactory};
use uba_core::sim::{
    AdversaryKind, ParallelConsensusFactory, RunReport, ScenarioExt, Simulation, TotalOrderPlan,
};
use uba_simnet::{DelaySpec, EngineKind, IdSpace, StopCondition, TimingSpec};

/// One scenario family: a closure building and running the harness under the
/// given engine (None = synchronous) and step mode.
type Build = Box<dyn Fn(Option<EngineKind>, bool) -> RunReport>;

/// The ten protocol/baseline families, with the exact recipes of the
/// engine-equivalence suite (tests/engine_equivalence.rs).
fn families() -> Vec<(&'static str, Build)> {
    let inputs: Vec<u64> = (0..7).map(|i| i % 2).collect();
    let approx_inputs: Vec<f64> = (0..7).map(|i| i as f64 * 5.0).collect();
    let pairs: Vec<(u64, u64)> = (0..4).map(|i| (i, 50 + i)).collect();
    // Per-closure copies: every family! body is a `move` closure.
    let consensus_inputs = inputs.clone();
    let phase_king_inputs = inputs;

    // Applies the engine choice to a builder, then the step mode to the
    // harness, without ever touching `engine_mut()` (which is sync-only).
    macro_rules! family {
        ($name:literal, |$scenario:ident| $harness:expr) => {
            ($name, {
                Box::new(move |engine: Option<EngineKind>, parallel: bool| {
                    let mut $scenario = Simulation::scenario();
                    if let Some(engine) = engine {
                        $scenario = $scenario.engine(engine);
                    }
                    $harness
                        .parallel_threshold(if parallel { 1 } else { usize::MAX })
                        .run()
                        .unwrap()
                }) as Build
            })
        };
    }

    vec![
        family!("consensus", |s| {
            let inputs = consensus_inputs.clone();
            s.correct(7)
                .byzantine(2)
                .seed(42)
                .adversary(AdversaryKind::SplitVote)
                .consensus(&inputs)
        }),
        family!("reliable-broadcast", |s| s
            .correct(7)
            .byzantine(2)
            .seed(43)
            .adversary(AdversaryKind::PartialAnnounce)
            .broadcast(42)
            .rounds(12)),
        family!("rotor", |s| s
            .correct(7)
            .byzantine(2)
            .seed(44)
            .adversary(AdversaryKind::AnnounceThenSilent)
            .rotor()),
        family!("approx", |s| {
            let approx_inputs = approx_inputs.clone();
            s.correct(7)
                .byzantine(2)
                .seed(45)
                .adversary(AdversaryKind::Worst)
                .approx(&approx_inputs)
        }),
        family!("parallel-consensus", |s| {
            let pairs = pairs.clone();
            s.correct(7)
                .byzantine(2)
                .seed(46)
                .max_rounds(500)
                .adversary(AdversaryKind::Worst)
                .build(ParallelConsensusFactory::new(pairs))
        }),
        family!("total-order", |s| {
            let plan = TotalOrderPlan::rounds(20)
                .event(2, 0, 11)
                .event(3, 1, 22)
                .leave(10, 2);
            s.correct(7)
                .byzantine(2)
                .seed(0xE0)
                .max_rounds(100)
                .adversary(AdversaryKind::Worst)
                .total_order(plan)
        }),
        family!("phase-king", |s| {
            let inputs = phase_king_inputs.clone();
            s.correct(7)
                .byzantine(2)
                .ids(IdSpace::Consecutive)
                .seed(0)
                .max_rounds(300)
                .build(PhaseKingFactory::new(inputs))
        }),
        family!("srikanth-toueg", |s| s
            .correct(7)
            .byzantine(2)
            .ids(IdSpace::Consecutive)
            .seed(0)
            .build(StBroadcastFactory::new(42))
            .rounds(8)),
        family!("known-rotor", |s| s
            .correct(7)
            .byzantine(2)
            .ids(IdSpace::Consecutive)
            .seed(0)
            .max_rounds(100)
            .build(KnownRotorFactory)),
        family!("dolev-approx", |s| {
            let inputs: Vec<f64> = (0..8).map(|i| i as f64 * 3.0).collect();
            s.correct(8)
                .byzantine(2)
                .ids(IdSpace::Consecutive)
                .seed(0)
                .build(DolevApproxFactory::new(inputs))
        }),
    ]
}

/// Strips the engine marker so sync and zero-jitter event reports can be
/// compared field-for-field: the scenario *axis* necessarily differs, the
/// behaviour must not.
fn normalized(mut report: RunReport) -> RunReport {
    report.scenario.engine = None;
    report
}

fn assert_byte_identical(name: &str, sync: RunReport, event: RunReport) {
    let sync = normalized(sync);
    let event = normalized(event);
    assert_eq!(sync, event, "{name}: event engine changed the report");
    // Field equality plus serialisation equality: the recorded-artifact
    // pipeline consumes the JSON, so pin the bytes too.
    let sync_json = serde_json::to_string(&sync).expect("reports serialise");
    let event_json = serde_json::to_string(&event).expect("reports serialise");
    assert_eq!(
        sync_json, event_json,
        "{name}: serialised reports are not byte-identical"
    );
}

#[test]
fn zero_jitter_event_reports_are_byte_identical_to_sync_serial() {
    for (name, build) in &families() {
        let sync = build(None, false);
        let event = build(Some(EngineKind::event()), false);
        assert!(sync.completed(), "{name}: sync run hit its round cap");
        assert_byte_identical(name, sync, event);
    }
}

#[test]
fn zero_jitter_event_reports_are_byte_identical_to_sync_parallel() {
    for (name, build) in &families() {
        let sync = build(None, true);
        let event = build(Some(EngineKind::event()), true);
        assert_byte_identical(name, sync, event);
        // And the event engine's parallel path matches its own serial path.
        let event_serial = build(Some(EngineKind::event()), false);
        assert_eq!(
            normalized(event_serial),
            normalized(build(Some(EngineKind::event()), true)),
            "{name}: parallel stepping changed the event engine's report"
        );
    }
}

#[test]
fn seeded_reordering_is_deterministic() {
    let run = |seed: u64| {
        let inputs: Vec<u64> = (0..7).map(|i| i % 2).collect();
        Simulation::scenario()
            .correct(7)
            .byzantine(2)
            .seed(42)
            .engine(EngineKind::Event(TimingSpec::synchronous().reorder(seed)))
            .adversary(AdversaryKind::SplitVote)
            .consensus(&inputs)
            .run()
            .unwrap()
    };
    // Same reorder seed ⇒ byte-identical report, across independent harnesses.
    let a = run(7);
    let b = run(7);
    assert_eq!(a, b, "seeded reordering must be reproducible");
    assert!(a.completed());
    // Reordering only permutes same-instant deliveries: the aggregate counts
    // match the unreordered run even when the seed differs.
    let c = run(8);
    assert_eq!(a.rounds, c.rounds);
    assert_eq!(a.messages, c.messages);
}

#[test]
fn gst_withholds_every_delivery_until_stabilisation() {
    let run = |max_rounds: u64| {
        Simulation::scenario()
            .correct(5)
            .byzantine(0)
            .seed(9)
            .max_rounds(max_rounds)
            .engine(EngineKind::Event(
                TimingSpec::synchronous().with_delay(DelaySpec::Gst { gst: 50, bound: 1 }),
            ))
            .broadcast(42)
            .stop_when(StopCondition::AllOutput)
            .run()
            .unwrap()
    };
    // The synchronous control: the broadcast is announced, echoed and accepted
    // within a few rounds.
    let sync = Simulation::scenario()
        .correct(5)
        .byzantine(0)
        .seed(9)
        .max_rounds(20)
        .broadcast(42)
        .stop_when(StopCondition::AllOutput)
        .run()
        .unwrap();
    assert!(sync.completed(), "sync control must accept the broadcast");
    assert!(sync.messages.deliveries > 0);

    // Below GST the network is *totally* silent: not a single delivery, a
    // state the synchronous engine cannot express — there, the round-1
    // announcements always arrive in round 2.
    let stalled = run(20);
    assert!(
        !stalled.completed(),
        "no delivery can happen before GST: {:?}",
        stalled.status
    );
    assert_eq!(stalled.messages.deliveries, 0, "pre-GST silence is total");

    // With a cap past GST the queued round-1 announcements finally arrive at
    // gst + bound — but the round-programmed protocol has long moved past its
    // echo rounds, so the late traffic can no longer trigger acceptance: the
    // silent prologue costs liveness permanently, exactly as in the DLS-style
    // partial-synchrony argument. The delivery count jumping from zero to the
    // full round-1 batch is the post-stabilisation flow.
    let late = run(100);
    assert!(
        !late.completed(),
        "the late announcements cannot resurrect the echo cascade: {:?}",
        late.status
    );
    assert_eq!(
        late.messages.deliveries, 25,
        "the withheld round-1 batch (5 senders x 5 recipients) flows after GST"
    );
}

#[test]
fn every_family_runs_deterministically_under_gst() {
    // Families react differently to a silent prologue — some recover after
    // stabilisation, some lose liveness for good (the id-only algorithms
    // freeze their member estimate during the silent initialisation rounds).
    // Either way the execution must be a pure function of the spec: two
    // harnesses over the same GST scenario produce identical reports.
    let gst = EngineKind::Event(
        TimingSpec::synchronous().with_delay(DelaySpec::Gst { gst: 3, bound: 2 }),
    );
    for (name, build) in &families() {
        let first = build(Some(gst.clone()), false);
        let second = build(Some(gst.clone()), false);
        assert_eq!(first, second, "{name}: GST run is not deterministic");
    }
}
