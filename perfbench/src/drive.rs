//! Drives one scenario round by round and collects what every workload
//! reports about a run: set-up, round latencies, exact counts and peaks.

use std::time::Instant;

use uba_checker::attach_verdicts;
use uba_simnet::sim::{Harness, ProtocolFactory, RunReport};
use uba_simnet::{shared, MuxWork};

use crate::stats::Samples;
use crate::trace;

/// Span names of the set-up and checking steps.
pub const GEN: &str = "workload.gen";
/// Span of `ScenarioBuilder::build`.
pub const BUILD: &str = "sim.build";
/// Span of `attach_verdicts`.
pub const CHECKER: &str = "checker";
/// Span of one whole run.
pub const RUN: &str = "run";

/// The exact counts of one run. They are a pure function of the run's
/// inputs, so they must repeat between runs and between the traced and
/// untraced pass.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counts {
    /// Rounds executed.
    pub rounds: u64,
    /// Logical messages sent by correct nodes.
    pub msgs: u64,
    /// Messages injected by the adversary.
    pub byzantine: u64,
    /// Deliveries to correct nodes after deduplication.
    pub deliveries: u64,
    /// `Shared` payload allocations made by the run.
    pub allocs: u64,
    /// Demux work summed over the run's mux nodes.
    pub mux: MuxWork,
    /// Snapshotter calls.
    pub snapshots: u64,
    /// Completed crash/restart cycles.
    pub restarts: u64,
}

impl std::ops::AddAssign for Counts {
    fn add_assign(&mut self, other: Counts) {
        self.rounds += other.rounds;
        self.msgs += other.msgs;
        self.byzantine += other.byzantine;
        self.deliveries += other.deliveries;
        self.allocs += other.allocs;
        self.mux.envelopes_indexed += other.mux.envelopes_indexed;
        self.mux.slot_steps += other.mux.slot_steps;
        self.mux.dropped_retired += other.mux.dropped_retired;
        self.snapshots += other.snapshots;
        self.restarts += other.restarts;
    }
}

/// Everything measured about one run (one scenario, one fuzz case, one
/// stream or one soak horizon).
#[derive(Clone, Debug, Default)]
pub struct RunStats {
    /// Input generation, nanoseconds.
    pub gen_ns: u64,
    /// Harness assembly, nanoseconds.
    pub build_ns: u64,
    /// The whole run: set-up, rounds and checks, nanoseconds.
    pub wall_ns: u64,
    /// `step_round` latency of each round, milliseconds.
    pub round_ms: Vec<f64>,
    /// Whether a crash/restart cycle completed in that round.
    pub restart_round: Vec<bool>,
    /// Request latency, milliseconds (one observation per request and
    /// correct node).
    pub latency_ms: Samples,
    /// Request latency, rounds (same observations).
    pub latency_rounds: Samples,
    /// Operations attempted: runs, requests, finalisable events or cases.
    pub attempted: u64,
    /// Attempted operations that failed an output check.
    pub failed: u64,
    /// Requests decided and checked.
    pub decided: u64,
    /// Decisions the messages bought: decided runs, instances or events.
    pub decisions: u64,
    /// Exact counts.
    pub counts: Counts,
    /// Engine phase slots, nanoseconds.
    pub phases: Vec<(&'static str, u64)>,
    /// Largest queued-envelope count after a round.
    pub queued_peak: u64,
    /// Largest write-ahead-log record count after a round.
    pub wal_peak: u64,
    /// Largest memory proxy (live `Shared` allocations + queued envelopes +
    /// log records) after a round.
    pub proxy_peak: u64,
    /// Memory proxy after every round (the soak's leak gate reads it).
    pub proxy: Vec<u64>,
    /// Restarted nodes whose chain misses a finalisable event (`soak`).
    pub stalled: u64,
}

impl RunStats {
    /// Set-up time: input generation plus harness assembly.
    pub fn setup_ns(&self) -> u64 {
        self.gen_ns + self.build_ns
    }
}

/// Wall-clock bounds of each round of a run, in milliseconds since the run
/// started (index `r - 1` holds round `r`).
pub struct Clock {
    origin: Instant,
    starts: Vec<f64>,
    ends: Vec<f64>,
}

impl Clock {
    /// A clock whose origin is now.
    pub fn start() -> Self {
        Clock {
            origin: Instant::now(),
            starts: Vec::new(),
            ends: Vec::new(),
        }
    }

    /// Milliseconds from the start of round `from` to the end of round `to`.
    pub fn span_ms(&self, from: u64, to: u64) -> f64 {
        self.ends[to as usize - 1] - self.starts[from as usize - 1]
    }

    fn ms(&self, at: Instant) -> f64 {
        (at - self.origin).as_secs_f64() * 1e3
    }
}

/// Times `f` into `slot` (nanoseconds) inside a span named `name`.
pub fn timed<R>(name: &'static str, slot: &mut u64, f: impl FnOnce() -> R) -> R {
    let started = Instant::now();
    let result = trace::span(name, f);
    *slot += started.elapsed().as_nanos() as u64;
    result
}

/// Steps `harness` until its stop condition or round cap, as `Harness::run`
/// does, timing each `step_round` and sampling the engine's counters after
/// it. `observe` sees the harness after every round.
pub fn drive<F: ProtocolFactory>(
    run: u64,
    harness: &mut Harness<F>,
    stats: &mut RunStats,
    clock: &mut Clock,
    mut observe: impl FnMut(&Harness<F>, u64, &Clock, &mut RunStats),
) {
    let cap = harness.context().spec.max_rounds;
    let mut restarts = harness.recovery_restarts().len();
    while !harness.stopped() && harness.rounds_executed() < cap {
        let round = harness.rounds_executed() + 1;
        trace::set_position(run, round);
        let started = Instant::now();
        trace::span(trace::ROUND, || harness.step_round())
            .expect("benchmark scenarios never violate engine rules");
        let ended = Instant::now();
        clock.starts.push(clock.ms(started));
        clock.ends.push(clock.ms(ended));
        stats.round_ms.push((ended - started).as_secs_f64() * 1e3);
        let now_restarts = harness.recovery_restarts().len();
        stats.restart_round.push(now_restarts > restarts);
        restarts = now_restarts;
        let queued = harness.queued_envelopes() as u64;
        let wal = harness.wal_entries() as u64;
        let proxy = shared::live_allocations() + queued + wal;
        stats.queued_peak = stats.queued_peak.max(queued);
        stats.wal_peak = stats.wal_peak.max(wal);
        stats.proxy_peak = stats.proxy_peak.max(proxy);
        stats.proxy.push(proxy);
        observe(harness, round, clock, stats);
    }
    trace::set_position(run, 0);
}

/// Assembles the run's report, attaches the checker's verdicts and fills in
/// the counts and phase split the report and harness carry.
pub fn finish<F: ProtocolFactory>(harness: &Harness<F>, stats: &mut RunStats) -> RunReport {
    let mut report = harness.report_now();
    trace::span(CHECKER, || attach_verdicts(&mut report));
    let counts = &mut stats.counts;
    counts.rounds = report.rounds;
    counts.msgs = report.messages.correct;
    counts.byzantine = report.messages.byzantine;
    counts.deliveries = report.messages.deliveries;
    counts.restarts = harness.recovery_restarts().len() as u64;
    stats.phases = harness.phase_timings().phases().to_vec();
    report
}

/// Runs `body` as one whole run: counts its `Shared` allocations and
/// snapshotter calls, and times it into `stats.wall_ns`.
pub fn whole_run(run: u64, body: impl FnOnce(&mut RunStats)) -> RunStats {
    let mut stats = RunStats::default();
    let allocs = shared::allocations();
    let snapshots = trace::snapshots();
    let started = Instant::now();
    trace::set_position(run, 0);
    trace::span(RUN, || body(&mut stats));
    stats.wall_ns = started.elapsed().as_nanos() as u64;
    stats.counts.allocs = shared::allocations() - allocs;
    stats.counts.snapshots = trace::snapshots() - snapshots;
    stats
}
