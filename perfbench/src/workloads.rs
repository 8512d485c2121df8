//! The four workloads. Each run draws its inputs from `derive_seed(seed,
//! run)`, so a benchmark seed fixes every run's inputs; the program only
//! receives the generated inputs. Every run checks its own outputs and counts
//! the operations that failed.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use uba_baselines::{DolevApproxFactory, KnownRotorFactory, PhaseKingFactory, StBroadcastFactory};
use uba_bench::fuzz::{case_failures, default_grid, FuzzCase, ProtocolId};
use uba_bench::soak::soak_churn;
use uba_bench::stream::{batch_value, total_order_tail, CONSENSUS_TAIL};
use uba_bench::workload::{binary_inputs, open_loop_requests};
use uba_core::sim::{
    ApproxFactory, BroadcastFactory, ConsensusFactory, ParallelConsensusFactory, RotorFactory,
    TotalOrderFactory, TotalOrderPlan,
};
use uba_core::Decision;
use uba_simnet::rng::derive_seed;
use uba_simnet::sim::{AdversaryKind, ProtocolFactory, RunReport, ScenarioBuilder};
use uba_simnet::sweep::ScenarioGrid;
use uba_simnet::{IdSpace, NodeId, Protocol, Simulation, StreamDriver, WalConfig};

use crate::drive::{drive, finish, timed, whole_run, Clock, RunStats, BUILD, GEN};
use crate::timed::{inner, Timed};

/// `oneshot`: correct nodes of the n = 128 split-vote consensus scenario.
pub const ONESHOT_CORRECT: usize = 86;
/// `oneshot`: Byzantine identities (f = 42, so n > 3f holds).
pub const ONESHOT_BYZANTINE: usize = 42;

/// `stream`: correct nodes (fault-free).
pub const STREAM_NODES: usize = 16;
/// `stream`: pipelined instances per run.
pub const STREAM_INSTANCES: usize = 250;
/// `stream`: batching window, rounds between instance starts.
pub const STREAM_SPACING: u64 = 2;
/// `stream`: open-loop arrival rate, requests per round.
pub const STREAM_RATE: f64 = 1_000.0;
/// `stream`: Zipf skew of the request keys.
pub const STREAM_ZIPF_S: f64 = 1.1;
/// `stream`: distinct request keys.
pub const STREAM_KEYS: usize = 4_096;

/// `soak`: correct nodes.
pub const SOAK_NODES: usize = 16;
/// `soak`: rounds per run.
pub const SOAK_ROUNDS: u64 = 400;
/// `soak`: a crash every this many rounds.
pub const SOAK_CRASH_PERIOD: u64 = 5;
/// `soak`: rounds a victim stays down.
pub const SOAK_DOWNTIME: u64 = 2;
/// `soak`: victims the crashes rotate over.
pub const SOAK_VICTIMS: usize = 8;
/// `soak`: write-ahead-log commits between syncs.
pub const SOAK_SYNC_EVERY: u64 = 2;
/// `soak`: log records before a compaction snapshot.
pub const SOAK_COMPACT_AFTER: usize = 64;

/// One benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// n = 128 id-only consensus under the split-vote adversary.
    Oneshot,
    /// Pipelined consensus instances behind mux nodes, open-loop Zipf load.
    Stream,
    /// Dynamic total ordering under rotating crash/restart churn.
    Soak,
    /// The smoke fuzz grid: ten families, tiny scenarios.
    Fuzz,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::Oneshot,
        Workload::Stream,
        Workload::Soak,
        Workload::Fuzz,
    ];

    /// The workload's name on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Oneshot => "oneshot",
            Workload::Stream => "stream",
            Workload::Soak => "soak",
            Workload::Fuzz => "fuzz",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Executes batch `k`: one run, or for `fuzz` one pass over the grid.
    pub fn batch(self, seed: u64, k: u64) -> Vec<RunStats> {
        match self {
            Workload::Oneshot => vec![oneshot(seed, k)],
            Workload::Stream => vec![stream(seed, k)],
            Workload::Soak => vec![soak(seed, k)],
            Workload::Fuzz => fuzz(seed, k),
        }
    }
}

/// Records one latency observation per correct node the first time it
/// outputs: from the start of round 1 to the end of the current round.
fn note_outputs<N: Protocol>(
    nodes: &[N],
    seen: &mut BTreeSet<NodeId>,
    round: u64,
    clock: &Clock,
    stats: &mut RunStats,
) {
    for node in nodes {
        if node.output().is_some() && seen.insert(node.id()) {
            stats.latency_ms.add(clock.span_ms(1, round), 1);
            stats.latency_rounds.add(round as f64, 1);
        }
    }
}

/// Builds, drives and checks one scenario of a protocol whose nodes all
/// start at round 1, noting each node's first output.
fn one_scenario<F: ProtocolFactory>(
    run: u64,
    stats: &mut RunStats,
    builder: ScenarioBuilder,
    factory: impl FnOnce() -> F,
) -> RunReport {
    let mut harness = timed(BUILD, &mut stats.build_ns, || {
        builder.build(Timed::<F, false>(factory()))
    });
    let mut clock = Clock::start();
    let mut seen = BTreeSet::new();
    drive(
        run,
        &mut harness,
        stats,
        &mut clock,
        |h, round, clock, stats| note_outputs(inner(h.nodes()), &mut seen, round, clock, stats),
    );
    finish(&harness, stats)
}

/// One `oneshot` run's inputs: half the correct nodes propose 0, half 1,
/// in a seed-shuffled order.
pub fn oneshot_inputs(run_seed: u64) -> Vec<u64> {
    binary_inputs(ONESHOT_CORRECT, 0.5, run_seed)
}

/// The scenario every `oneshot` run uses; the seed also lays out the ids.
pub fn oneshot_scenario(run_seed: u64) -> ScenarioBuilder {
    Simulation::scenario()
        .correct(ONESHOT_CORRECT)
        .byzantine(ONESHOT_BYZANTINE)
        .seed(run_seed)
        .max_rounds(5_000)
        .adversary(AdversaryKind::SplitVote)
}

/// One `oneshot` run: a fresh n = 128 scenario.
pub fn oneshot(seed: u64, run: u64) -> RunStats {
    whole_run(run, |stats| {
        let run_seed = derive_seed(seed, run);
        let inputs = timed(GEN, &mut stats.gen_ns, || oneshot_inputs(run_seed));
        let builder = oneshot_scenario(run_seed);
        let report = one_scenario(run, stats, builder, || ConsensusFactory::new(inputs));
        let ok = report.completed() && report.verdicts_passed();
        stats.attempted = 1;
        stats.failed = u64::from(!ok);
        stats.decided = u64::from(ok);
        stats.decisions = u64::from(ok);
    })
}

/// The requests of one `stream` run, batched per instance: each instance's
/// keys and how many of its requests arrived in each round.
pub struct StreamInputs {
    /// Request keys per instance.
    pub batches: Vec<Vec<u64>>,
    /// Per instance: arrival round → requests.
    pub arrivals: Vec<BTreeMap<u64, u64>>,
}

/// Generates one `stream` run's requests: an open-loop Zipf schedule whose
/// window `k` (rounds `2k+1 ..= 2k+2`) becomes instance `k`'s batch.
pub fn stream_inputs(run_seed: u64) -> StreamInputs {
    let requests = open_loop_requests(
        STREAM_INSTANCES as u64 * STREAM_SPACING,
        STREAM_RATE,
        STREAM_ZIPF_S,
        STREAM_KEYS,
        run_seed,
    );
    let mut inputs = StreamInputs {
        batches: vec![Vec::new(); STREAM_INSTANCES],
        arrivals: vec![BTreeMap::new(); STREAM_INSTANCES],
    };
    for request in &requests {
        let window = ((request.arrival_round - 1) / STREAM_SPACING) as usize;
        inputs.batches[window].push(request.key);
        *inputs.arrivals[window]
            .entry(request.arrival_round)
            .or_default() += 1;
    }
    inputs
}

/// The consensus stream over `inputs`: instance `k` votes on its batch's
/// digest and starts the round after its window closes.
pub fn stream_driver<C: ProtocolFactory<Node: Protocol<Output = Decision<u64>>>>(
    inputs: &StreamInputs,
    wrap: impl Fn(ConsensusFactory) -> C,
) -> StreamDriver<C> {
    let mut driver = StreamDriver::new("consensus").digest(Arc::new(|decision: &Decision<u64>| {
        decision.value.to_string()
    }));
    for (k, batch) in inputs.batches.iter().enumerate() {
        driver = driver.push(
            (k as u64 + 1) * STREAM_SPACING + 1,
            batch.len(),
            wrap(ConsensusFactory::new(vec![
                batch_value(batch);
                STREAM_NODES
            ])),
        );
    }
    driver
}

/// The scenario every `stream` run uses.
pub fn stream_scenario(run_seed: u64) -> ScenarioBuilder {
    Simulation::scenario()
        .correct(STREAM_NODES)
        .byzantine(0)
        .seed(run_seed)
        .max_rounds(STREAM_INSTANCES as u64 * STREAM_SPACING + 1 + CONSENSUS_TAIL)
}

/// One `stream` run: `STREAM_INSTANCES` pipelined instances.
pub fn stream(seed: u64, run: u64) -> RunStats {
    whole_run(run, |stats| {
        let run_seed = derive_seed(seed, run);
        let inputs = timed(GEN, &mut stats.gen_ns, || stream_inputs(run_seed));
        let mut harness = timed(BUILD, &mut stats.build_ns, || {
            let driver = stream_driver(&inputs, Timed::<_, false>);
            stream_scenario(run_seed).build(Timed::<_, true>(driver))
        });
        let mut clock = Clock::start();
        drive(run, &mut harness, stats, &mut clock, |_, _, _, _| {});
        let report = finish(&harness, stats);
        for node in inner(harness.nodes()) {
            let work = node.work();
            stats.counts.mux.envelopes_indexed += work.envelopes_indexed;
            stats.counts.mux.slot_steps += work.slot_steps;
            stats.counts.mux.dropped_retired += work.dropped_retired;
        }
        let section = report
            .stream
            .as_ref()
            .expect("a stream run records a stream section");
        let checked = report.verdicts_passed() && section.instances.len() == STREAM_INSTANCES;
        for instance in &section.instances {
            let k = instance.instance as usize;
            let requests = inputs.batches[k].len() as u64;
            stats.attempted += requests;
            if !(checked && instance.decided && instance.agreement) {
                stats.failed += requests;
                continue;
            }
            stats.decided += requests;
            stats.decisions += 1;
            for &(_, decided) in &instance.decide_rounds {
                let decided = decided.expect("a decided instance has every decide round");
                for (&arrival, &count) in &inputs.arrivals[k] {
                    stats.latency_ms.add(clock.span_ms(arrival, decided), count);
                    stats
                        .latency_rounds
                        .add((decided - arrival + 1) as f64, count);
                }
            }
        }
        let expected = (STREAM_INSTANCES as f64 * STREAM_SPACING as f64 * STREAM_RATE) as u64;
        if stats.attempted != expected {
            stats.failed = stats.attempted.max(expected);
            stats.decided = 0;
        }
    })
}

/// The inputs of one `soak` run.
pub struct SoakInputs {
    /// The nodes the crashes rotate over.
    pub victims: Vec<NodeId>,
    /// The crash/restart schedule.
    pub churn: uba_simnet::ChurnSchedule,
    /// The founder's event plan: one event every other round, the event's
    /// value being its submission round.
    pub plan: TotalOrderPlan<u64>,
}

/// Generates one `soak` run's inputs from its identifiers.
pub fn soak_inputs(run_seed: u64) -> SoakInputs {
    let ids = IdSpace::default().generate(SOAK_NODES, run_seed);
    // Founder 0 submits every event, so it is never a victim.
    let victims = ids[1..=SOAK_VICTIMS].to_vec();
    let churn = soak_churn(&victims, SOAK_ROUNDS, SOAK_CRASH_PERIOD, SOAK_DOWNTIME);
    let mut plan = TotalOrderPlan::rounds(SOAK_ROUNDS);
    for round in (1..SOAK_ROUNDS).step_by(2) {
        plan = plan.event(round, 0, round);
    }
    SoakInputs {
        victims,
        churn,
        plan,
    }
}

/// The scenario every `soak` run uses.
pub fn soak_scenario(run_seed: u64, churn: uba_simnet::ChurnSchedule) -> ScenarioBuilder {
    Simulation::scenario()
        .correct(SOAK_NODES)
        .seed(run_seed)
        .max_rounds(SOAK_ROUNDS + 1)
        .churn(churn)
}

/// The log configuration every `soak` run uses.
pub fn soak_wal() -> WalConfig {
    WalConfig {
        compact_after: SOAK_COMPACT_AFTER,
        sync_every: SOAK_SYNC_EVERY,
    }
}

/// Events submitted early enough to be finalised inside the run.
pub fn finalisable_events() -> Vec<u64> {
    (1..SOAK_ROUNDS)
        .step_by(2)
        .filter(|round| round + total_order_tail(SOAK_NODES) <= SOAK_ROUNDS)
        .collect()
}

/// The soak's leak gate: the memory proxy's floor over the last third of the
/// run must stay within 25% of its floor over the middle third (the first
/// third is warm-up). The proxy is a sawtooth as logs fill and compact; a
/// leak raises its floor.
pub fn leaks(proxy: &[u64]) -> bool {
    let third = proxy.len() / 3;
    let floor = |window: &[u64]| window.iter().copied().min().unwrap_or(0);
    let middle = floor(&proxy[third..2 * third]);
    let last = floor(&proxy[proxy.len() - third..]);
    third == 0 || last as f64 > middle as f64 * 1.25
}

/// One `soak` run: `SOAK_ROUNDS` rounds of total ordering under churn.
///
/// The chain check covers the nodes that never crash: every finalisable
/// event must be in each of their chains. A restarted node rejoins with its
/// round counter behind by its downtime and does not catch up, so its chain
/// stops growing; those nodes are counted in `RunStats::stalled` instead.
pub fn soak(seed: u64, run: u64) -> RunStats {
    whole_run(run, |stats| {
        let run_seed = derive_seed(seed, run);
        let inputs = timed(GEN, &mut stats.gen_ns, || soak_inputs(run_seed));
        let mut harness = timed(BUILD, &mut stats.build_ns, || {
            soak_scenario(run_seed, inputs.churn)
                .build(Timed::<_, false>(TotalOrderFactory::new(inputs.plan)))
                .wal_config(soak_wal())
                .traffic_gc()
        });
        let mut clock = Clock::start();
        // Chain entries already observed per node: a restarted node may come
        // back with a shorter chain, and re-finalising an entry is not new.
        let mut observed: BTreeMap<NodeId, usize> = BTreeMap::new();
        drive(
            run,
            &mut harness,
            stats,
            &mut clock,
            |h, round, clock, stats| {
                for node in inner(h.nodes()) {
                    let chain = node.chain();
                    let seen = observed.entry(node.id()).or_default();
                    for entry in chain.iter().skip(*seen) {
                        stats.latency_ms.add(clock.span_ms(entry.event, round), 1);
                        stats
                            .latency_rounds
                            .add((round - entry.event + 1) as f64, 1);
                    }
                    *seen = (*seen).max(chain.len());
                }
            },
        );
        let report = finish(&harness, stats);
        let finalisable = finalisable_events();
        let nodes = inner(harness.nodes());
        // (restarted?, events in the node's chain) per node.
        let chains: Vec<(bool, BTreeSet<u64>)> = nodes
            .iter()
            .map(|node| {
                let events = node.chain().iter().map(|entry| entry.event).collect();
                (inputs.victims.contains(&node.id()), events)
            })
            .collect();
        let has_all = |events: &BTreeSet<u64>| finalisable.iter().all(|e| events.contains(e));
        stats.stalled = chains
            .iter()
            .filter(|(restarted, events)| *restarted && !has_all(events))
            .count() as u64;
        let missing = finalisable
            .iter()
            .filter(|event| {
                !chains
                    .iter()
                    .all(|(restarted, events)| *restarted || events.contains(event))
            })
            .count() as u64;
        let chain_ok = report.chain.as_ref().is_some_and(|chain| chain.prefix_ok);
        let ok = report.verdicts_passed()
            && chain_ok
            && nodes.len() == SOAK_NODES
            && !leaks(&stats.proxy);
        stats.attempted = finalisable.len() as u64;
        stats.failed = if ok { missing } else { stats.attempted };
        stats.decided = stats.attempted - stats.failed;
        stats.decisions = stats.decided;
    })
}

/// The fuzz grid of pass `pass`: the smoke grid under a base seed derived
/// from the benchmark seed.
pub fn fuzz_grid(seed: u64, pass: u64) -> ScenarioGrid<ProtocolId> {
    default_grid(true).base_seed(derive_seed(seed, pass))
}

/// Deterministic binary inputs, as the fuzz harness gives them.
fn fuzz_binary(correct: usize) -> Vec<u64> {
    (0..correct).map(|i| (i % 2) as u64).collect()
}

/// Deterministic spread-out reals, as the fuzz harness gives them.
fn fuzz_reals(correct: usize) -> Vec<f64> {
    (0..correct).map(|i| i as f64 * 10.0).collect()
}

/// The total-ordering plan the fuzz harness runs.
fn fuzz_total_order(correct: usize) -> TotalOrderPlan<u64> {
    let mut plan = TotalOrderPlan::rounds(16);
    for round in 1..=8u64 {
        plan = plan.event(round, (round as usize) % correct.max(1), round);
    }
    if correct >= 4 {
        plan = plan.leave(10, correct - 1);
    }
    plan
}

/// Runs one fuzz case with the same factories and inputs as
/// `uba_bench::fuzz::run_case`, through the timing wrapper.
pub fn run_fuzz_case(case: &FuzzCase, run: u64, stats: &mut RunStats) -> RunReport {
    let builder = ScenarioBuilder::from_spec(case.spec.clone());
    let correct = case.spec.correct;
    match case.protocol {
        ProtocolId::Consensus => one_scenario(run, stats, builder, || {
            ConsensusFactory::new(fuzz_binary(correct))
        }),
        ProtocolId::ReliableBroadcast => {
            one_scenario(run, stats, builder, || BroadcastFactory::correct_source(42))
        }
        ProtocolId::Rotor => one_scenario(run, stats, builder, || RotorFactory),
        ProtocolId::Approx => one_scenario(run, stats, builder, || {
            ApproxFactory::new(fuzz_reals(correct))
        }),
        ProtocolId::ParallelConsensus => one_scenario(run, stats, builder, || {
            ParallelConsensusFactory::new(vec![(0, 100), (1, 101), (2, 102)])
                .with_partial_pair((7, 700))
        }),
        ProtocolId::TotalOrder => one_scenario(run, stats, builder, || {
            TotalOrderFactory::new(fuzz_total_order(correct))
        }),
        ProtocolId::PhaseKing => one_scenario(run, stats, builder, || {
            PhaseKingFactory::new(fuzz_binary(correct))
        }),
        ProtocolId::SrikanthToueg => {
            one_scenario(run, stats, builder, || StBroadcastFactory::new(42))
        }
        ProtocolId::DolevApprox => one_scenario(run, stats, builder, || {
            DolevApproxFactory::new(fuzz_reals(correct))
        }),
        ProtocolId::KnownRotor => one_scenario(run, stats, builder, || KnownRotorFactory),
    }
}

/// One `fuzz` pass: every case of the grid, each its own run.
pub fn fuzz(seed: u64, pass: u64) -> Vec<RunStats> {
    let grid = fuzz_grid(seed, pass);
    let cases = grid.len();
    (0..cases)
        .map(|index| {
            let run = pass * cases + index;
            whole_run(run, |stats| {
                let case = timed(GEN, &mut stats.gen_ns, || {
                    FuzzCase::from_sweep(&grid.case(index))
                });
                let report = run_fuzz_case(&case, run, stats);
                let ok = case_failures(&case, &report).is_empty();
                stats.attempted = 1;
                stats.failed = u64::from(!ok);
                stats.decided = u64::from(ok);
                stats.decisions = u64::from(ok);
            })
        })
        .collect()
}
